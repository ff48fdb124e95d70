//! What a block keeps for its backward, measured in bytes.
//!
//! A counting global allocator tracks live and peak heap bytes. One rank
//! on one kernel thread trains a one-layer and a two-layer model of each
//! family through `LocalAttention`; the difference of the two peaks is
//! what one more layer keeps alive across the forward. It must equal the
//! block's saved set (`BlockCtx`, see DESIGN.md "What a block saves") plus
//! the executor's per-layer `Q/K/V/Lse` store, within half a hidden row
//! per token. A forward-only `evaluate` keeps no saved set: its whole
//! peak over its input stays under that one layer's.
//!
//! Everything runs in the one test below, sequentially: the allocator is
//! process-wide, so a second test running beside it would be counted too.

use fpdt_core::runtime::data::Corpus;
use fpdt_core::runtime::exec::LocalAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_model::config::{Family, ModelConfig};
use fpdt_tensor::KernelCtx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SEQ: usize = 256;
const CHUNKS: usize = 4;

/// Peak live bytes above the starting point during one forward/backward
/// of a `cfg` model, measured on its second step (the first fills the
/// kernel scratch and the RoPE cache, which later steps reuse).
fn step_peak(cfg: &ModelConfig) -> usize {
    let (x, y) = Corpus::new(cfg.vocab, 0.1, 3).sample(SEQ);
    let pos: Vec<usize> = (0..SEQ).collect();
    let mut model = GptModel::new(cfg, 5);
    let mut exec = LocalAttention::new(CHUNKS);
    let mut step = |model: &mut GptModel| {
        model.zero_grad();
        model
            .forward_backward(&mut exec, &x, &y, &pos, 2 * CHUNKS, 2)
            .expect("forward/backward succeeds");
    };
    step(&mut model);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    step(&mut model);
    PEAK.load(Ordering::Relaxed) - base
}

/// Peak live bytes above the starting point during one `evaluate` batch of
/// a two-layer `cfg` model, its input sampled inside: a forward-only pass,
/// measured on its second call.
fn eval_peak(cfg: &ModelConfig) -> usize {
    let mut model = GptModel::new(cfg, 5);
    let mut exec = LocalAttention::new(CHUNKS);
    let mut eval = |model: &mut GptModel| {
        let mut corpus = Corpus::new(cfg.vocab, 0.1, 3);
        model
            .evaluate(&mut exec, &mut corpus, SEQ, 1)
            .expect("evaluation succeeds");
    };
    eval(&mut model);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    eval(&mut model);
    PEAK.load(Ordering::Relaxed) - base
}

/// Floats per token one block keeps from its forward to its backward:
/// its input `x`, and per attention chunk the attention output `o`, the
/// residual `x1` and each MLP piece's pre-activation `a` (and `u` for
/// SwiGLU). The norms' statistics are rebuilt with their outputs.
fn saved_floats_per_token(cfg: &ModelConfig) -> usize {
    let (h, attn) = (cfg.hidden, cfg.heads * cfg.head_dim());
    match cfg.family {
        Family::Gpt => 2 * h + attn + cfg.ffn_hidden,
        Family::Llama => 2 * h + attn + 2 * cfg.ffn_hidden,
    }
}

/// Floats per token the executor stores per layer: `Q`, `K`, `V` and one
/// log-sum-exp per query head.
fn store_floats_per_token(cfg: &ModelConfig) -> usize {
    let d = cfg.head_dim();
    cfg.heads * d + 2 * cfg.kv_heads * d + cfg.heads
}

#[test]
fn one_more_layer_costs_its_saved_set_and_its_attention_store() {
    let families: [fn(usize) -> ModelConfig; 2] = [
        |layers| ModelConfig::tiny(layers, 64, 4, 50),
        |layers| ModelConfig::tiny_llama(layers, 64, 4, 2, 50),
    ];
    let ctx = KernelCtx {
        threads: 1,
        ..KernelCtx::current()
    };
    for family in families {
        let (one, two) = (family(1), family(2));
        let (p1, p2) = ctx.enter(|| (step_peak(&one), step_peak(&two)));
        let per_layer = p2 as i64 - p1 as i64;
        let want = (4 * SEQ * (saved_floats_per_token(&one) + store_floats_per_token(&one))) as i64;
        let slack = (4 * SEQ * one.hidden / 2) as i64;
        let row = (4 * SEQ * one.hidden) as f64;
        println!(
            "{}: {:.2} hidden rows per token per layer (closed form {:.2})",
            one.name,
            per_layer as f64 / row,
            want as f64 / row
        );
        assert!(
            (per_layer - want).abs() <= slack,
            "{}: one more layer holds {per_layer} B at the peak ({:.2} hidden rows per token), \
             the saved set and the attention store are {want} B ({:.2} rows)",
            one.name,
            per_layer as f64 / row,
            want as f64 / row,
        );
        // A forward-only pass builds no saved set, so its whole peak stays
        // under what one more training layer holds (a forward that builds
        // each block's saved set and drops it reads 13.51 and 12.23 rows
        // here, against 10.06 and 9.06).
        let eval = ctx.enter(|| eval_peak(&two)) as i64;
        println!(
            "{}: evaluate peaks at {:.2} hidden rows per token over its input",
            two.name,
            eval as f64 / row
        );
        assert!(
            eval < want,
            "{}: evaluate peaks at {eval} B, one training layer's saved set and store are {want} B",
            two.name
        );
    }
}
